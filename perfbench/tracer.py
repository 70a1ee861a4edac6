"""Per-layer tracing of padiclds, installed from outside the package.

The layers are the modules under ``src/padiclds``.  ``Tracer.install`` wraps
every public function of each layer and the public methods of its classes,
except the accessors in ``UNWRAPPED``, and rebinds the wrapper under every name that refers to the original in any
padiclds module, because ``cli`` and others import functions by name.

Each wrapped call of an ordinary function records a span: name, start, end,
parent span and job id.  Hot leaves, called tens of thousands of times per
job, are aggregated instead as count plus busy time per parent span.  Spans
stay in memory until ``write`` is called at the end of a pass.

Per layer the tracer keeps calls, busy time (time with the layer anywhere on
the stack), self time (time with the layer innermost) and calls that raised.
Some counts are computed from call arguments and return values; they are
named in ``COMPUTED``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from collections import Counter

from oracles import candidate_count

LAYERS = ("cli", "sequence", "polynomials", "padic", "permcheck", "discrepancy",
          "paircorr", "catalog")

HOT = frozenset({
    "padic.check_prime", "padic.digits_of", "padic.monna_of_int", "padic.monna_map",
    "polynomials.eval_mod", "polynomials.reduce_coeffs_mod",
})

# Accessors run per coefficient or digit inside the polynomial arithmetic;
# a wrapper would cost more than the work it measures, so they stay unwrapped.
UNWRAPPED = frozenset({"polynomials.IntPolynomial.coefficient", "padic.PAdicApprox.residue"})

# metric prefix -> wrapped function; each gets .calls and .busy_s
FUNCTIONS = {
    "padic.check_prime": "padic.check_prime",
    "padic.monna": "padic.monna_of_int",
    "polynomials.eval_mod": "polynomials.eval_mod",
    "permcheck.classify": "permcheck.classify_low_discrepancy",
    "permcheck.noebauer": "permcheck.noebauer_mod_p2",
    "permcheck.reduction": "permcheck.classify_via_reduction",
    "discrepancy.padic": "discrepancy.padic_discrepancy",
    "discrepancy.profile": "discrepancy.discrepancy_profile",
    "discrepancy.real": "discrepancy.real_extreme_discrepancy",
    "catalog.search": "catalog.exhaustive_search",
    "catalog.match": "catalog.match_against_table",
    "catalog.verify": "catalog.verify_entry",
}

COMPUTED = (
    "sequence.values",          # values returned by integer_values/padic_values
    "permcheck.enum_residues",  # moduli passed to is_permutation_mod/first_missing_residue
    "permcheck.verdicts",       # ground-truth verdicts returned
    "discrepancy.padic.points",  # len(values) into padic_discrepancy
    "discrepancy.padic.levels",  # separation_depth + 1 per padic_discrepancy
    "discrepancy.real.points",  # len(points) into real_extreme_discrepancy
    "paircorr.values",          # len(values) into pair_count
    "catalog.candidates",       # constraint formula of exhaustive_search
    "catalog.hits",             # generators returned by exhaustive_search
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _values(counts, args, kwargs, result, outermost):
    if outermost:  # padic_values calls integer_values: count the outer call only
        counts["sequence.values"] += len(result)


def _moduli(counts, args, kwargs, result, outermost):
    counts["permcheck.enum_residues"] += _arg(args, kwargs, 1, "m")


def _verdicts(counts, args, kwargs, result, outermost):
    counts["permcheck.verdicts"] += 1
    counts["permcheck.ld_verdicts"] += bool(result.low_discrepancy)


def _padic(counts, args, kwargs, result, outermost):
    counts["discrepancy.padic.points"] += len(_arg(args, kwargs, 0, "values"))
    counts["discrepancy.padic.levels"] += result.separation_depth + 1


def _real(counts, args, kwargs, result, outermost):
    counts["discrepancy.real.points"] += len(_arg(args, kwargs, 0, "points"))


def _pairs(counts, args, kwargs, result, outermost):
    counts["paircorr.values"] += len(_arg(args, kwargs, 0, "values"))


def _search(counts, args, kwargs, result, outermost):
    p, degree = _arg(args, kwargs, 0, "p"), _arg(args, kwargs, 1, "max_degree")
    cons = args[2] if len(args) > 2 else kwargs.get("constraints")
    flags = (cons.monic, cons.zero_constant, cons.nonzero_linear) if cons else (False,) * 3
    counts["catalog.candidates"] += candidate_count(p, degree, *flags)
    counts["catalog.hits"] += len(result)


HOOKS = {
    "sequence.SequenceSpec.integer_values": _values,
    "sequence.SequenceSpec.padic_values": _values,
    "permcheck.is_permutation_mod": _moduli,
    "permcheck.first_missing_residue": _moduli,
    "permcheck.classify_low_discrepancy": _verdicts,
    "discrepancy.padic_discrepancy": _padic,
    "discrepancy.real_extreme_discrepancy": _real,
    "paircorr.pair_count": _pairs,
    "catalog.exhaustive_search": _search,
}


class Tracer:
    def __init__(self) -> None:
        self.job = None
        self.spans: list = []
        self.hot: dict = {}
        self.stack: list = [[None, 0.0]]  # frames: [span id, time in traced children]
        self.layers = {layer: [0, 0.0, 0.0, 0, 0] for layer in LAYERS}  # calls busy self errors depth
        self.funcs: dict = {}  # name -> [calls, busy, depth]
        self.counts: Counter = Counter()

    def _wrap(self, fn, layer, name):
        lay = self.layers[layer]
        fst = self.funcs.setdefault(name, [0, 0.0, 0])
        stack, spans, hot, counts = self.stack, self.spans, self.hot, self.counts
        is_hot, hook, clock = name in HOT, HOOKS.get(name), time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            if is_hot:
                frame = [parent[0], 0.0]
            else:
                frame = [len(spans), 0.0]
                spans.append(None)
            lay[4] += 1
            fst[2] += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                lay[3] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                lay[0] += 1
                fst[0] += 1
                lay[4] -= 1
                fst[2] -= 1
                if not lay[4]:
                    lay[1] += dur
                if not fst[2]:
                    fst[1] += dur
                lay[2] += dur - frame[1]
                parent[1] += dur
                if is_hot:
                    agg = hot.get((parent[0], name))
                    if agg is None:
                        hot[(parent[0], name)] = [1, dur]
                    else:
                        agg[0] += 1
                        agg[1] += dur
                else:
                    spans[frame[0]] = (name, start, end, parent[0], tracer.job)
            if hook is not None:
                hook(counts, args, kwargs, result, not lay[4])
            return result

        return traced

    def install(self) -> None:
        """Wrap each layer's public functions and rebind every alias."""
        modules = {layer: importlib.import_module(f"padiclds.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrapped[obj] = self._wrap(obj, layer, f"{layer}.{name}")
                elif isinstance(obj, type):
                    for attr, member in list(vars(obj).items()):
                        if attr.startswith("_"):
                            continue
                        qual = f"{layer}.{name}.{attr}"
                        if qual in UNWRAPPED:
                            continue
                        if isinstance(member, types.FunctionType):
                            setattr(obj, attr, self._wrap(member, layer, qual))
                        elif isinstance(member, classmethod):
                            setattr(obj, attr, classmethod(self._wrap(member.__func__, layer, qual)))
        package = importlib.import_module("padiclds")
        for mod in (package, *modules.values()):
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        for layer, (calls, busy, self_s, errors, _) in self.layers.items():
            out[f"{layer}.calls"] = (calls, "count")
            out[f"{layer}.busy_s"] = (busy, "s")
            out[f"{layer}.self_s"] = (self_s, "s")
            out[f"{layer}.errors"] = (errors, "count")
        for metric, name in FUNCTIONS.items():
            calls, busy, _ = self.funcs.get(name, (0, 0.0, 0))
            out[f"{metric}.calls"] = (calls, "count")
            out[f"{metric}.busy_s"] = (busy, "s")
        for name in COMPUTED:
            out[name] = (self.counts[name], "count.computed")
        c = self.counts
        out["permcheck.ld_ratio"] = (c["permcheck.ld_verdicts"] / c["permcheck.verdicts"]
                                     if c["permcheck.verdicts"] else 0.0, "ratio.computed")
        out["catalog.hit_ratio"] = (c["catalog.hits"] / c["catalog.candidates"]
                                    if c["catalog.candidates"] else 0.0, "ratio.computed")
        return out

    def seconds(self) -> dict:
        """The time metrics so far, as {name: seconds}."""
        return {name: value for name, (value, unit) in self.metrics().items() if unit == "s"}

    def write(self, path) -> None:
        """Spans and hot-leaf aggregates as JSON lines."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"span": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
            for (parent, name), (count, busy) in self.hot.items():
                fh.write(json.dumps({"parent": parent, "name": name, "count": count,
                                     "busy_s": busy}) + "\n")
