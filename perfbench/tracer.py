"""Run one `nctoric` command with every layer's public functions and methods
wrapped from outside the package, and write its spans and counters.

    python3 perfbench/tracer.py OUT.json -- <nctoric arguments>

A span is recorded for each call of a wrapped function: (name, start, end,
parent span index), times in seconds from the start of this process. A
layer is one nctoric module. Its busy time counts only the outermost
entries into it; its self time is the time its spans do not spend in child
spans of other layers. Methods of GaussRational, and every operator method
(`__mul__` and the like), stay unwrapped: that arithmetic is charged to the
caller, because wrapping calls made millions of times would distort the
trace. The file is written when the command ends, whatever its exit code.
"""
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

START = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYERS = ("exactmath", "toricfan", "freeword", "deltasystem", "ncalgebra",
          "sheaves", "azumaya", "serialize", "cli")
UNWRAPPED_CLASSES = {"GaussRational"}


class Trace:
    """Spans, per-layer and per-function totals, and counters of one process."""

    def __init__(self):
        self.spans = []
        self.stack = []                      # [span index, time in children]
        self.layer_depth = defaultdict(int)
        self.fn_depth = defaultdict(int)
        self.layers = defaultdict(lambda: [0.0, 0.0])        # busy, self
        self.functions = defaultdict(lambda: [0, 0.0, 0.0])  # calls, busy, self
        self.counters = defaultdict(int)
        self.compile_keys = set()

    def wrap(self, fn, name, layer, hook=None):
        spans, stack = self.spans, self.stack
        layer_depth, fn_depth = self.layer_depth, self.fn_depth
        layer_stats, fn_stats = self.layers[layer], self.functions[name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            layer_depth[layer] += 1
            fn_depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                spans[idx] = (name, t0 - START, t1 - START, parent)
                own = dur - frame[1]
                fn_stats[0] += 1
                fn_stats[2] += own
                layer_stats[1] += own
                layer_depth[layer] -= 1
                fn_depth[name] -= 1
                if not layer_depth[layer]:
                    layer_stats[0] += dur
                if not fn_depth[name]:
                    fn_stats[1] += dur
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def to_obj(self, import_s):
        counters = dict(self.counters)
        counters["freeword.compile.distinct"] = len(self.compile_keys)
        return {
            "import_s": import_s,
            "layers": dict(self.layers),
            "functions": dict(self.functions),
            "counters": counters,
            "spans": [list(s) for s in self.spans if s is not None],
        }


def hooks(trace):
    """Counters read from the arguments and results of named functions."""
    c = trace.counters

    def compile_submonoid(args, kwargs, sub):
        gens = sub.generators
        c["freeword.compile.generators"] += len(gens)
        # states of the flower automaton: the shared start state plus the
        # inner states of every nonempty generator
        c["freeword.compile.states"] += 1 + sum(len(g.letters) - 1 for g in gens if g.letters)
        trace.compile_keys.add(tuple(g.letters for g in gens))

    def chart_system(args, kwargs, result):
        system = result[0] if isinstance(result, tuple) else result
        size = max(len(sub.generators) for sub in system.charts.values())
        c["deltasystem.max_chart_generators"] = max(c["deltasystem.max_chart_generators"], size)

    def qim_mul(args, kwargs, m):
        bits = max(max(x.re.numerator.bit_length(), x.re.denominator.bit_length(),
                       x.im.numerator.bit_length(), x.im.denominator.bit_length())
                   for row in m for x in row) if m else 0
        c["exactmath.max_entry_bits"] = max(c["exactmath.max_entry_bits"], bits)

    def load_json(args, kwargs, result):
        c["serialize.bytes_read"] += os.path.getsize(args[0])

    def dump_json(args, kwargs, result):
        c["serialize.bytes_written"] += os.path.getsize(args[1])

    def system_from_obj(args, kwargs, result):
        c["serialize.replay.stages"] += len(args[0].get("extras", []))

    def bounded_ideal_member(args, kwargs, cert):
        if cert is not None:
            c["ncalgebra.ideal_member.cert_terms"] += len(cert.combination)

    def fm_eliminate(args, kwargs, result):
        c["exactmath.fm.constraints"] += len(args[0])

    def comm_monoid_member(args, kwargs, result):
        functional = args[2] if len(args) > 2 else kwargs.get("functional")
        if functional is None:
            c["toricfan.functional_solves"] += 1

    return {
        "freeword.compile_submonoid": compile_submonoid,
        "deltasystem.build_system": chart_system,
        "deltasystem.complete_system": chart_system,
        "deltasystem.augment_system": chart_system,
        "deltasystem.soften": chart_system,
        "exactmath.qim_mul": qim_mul,
        "serialize.load_json": load_json,
        "serialize.dump_json": dump_json,
        "serialize.system_from_obj": system_from_obj,
        "ncalgebra.bounded_ideal_member": bounded_ideal_member,
        "exactmath.fm_eliminate": fm_eliminate,
        "toricfan.comm_monoid_member": comm_monoid_member,
    }


def install(trace, modules):
    """Wrap public functions and methods, then rebind every module-level
    name that refers to a wrapped function, so `from .x import f` callers
    reach the wrapper too."""
    named_hooks = hooks(trace)
    replaced = {}
    for layer, module in modules.items():
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                name = f"{layer}.{attr}"
                replaced[value] = trace.wrap(value, name, layer, named_hooks.get(name))
            elif inspect.isclass(value) and attr not in UNWRAPPED_CLASSES:
                for meth, raw in list(vars(value).items()):
                    if meth.startswith("_"):
                        continue
                    name = f"{layer}.{attr}.{meth}"
                    if isinstance(raw, (staticmethod, classmethod)):
                        setattr(value, meth, type(raw)(trace.wrap(raw.__func__, name, layer)))
                    elif inspect.isfunction(raw):
                        setattr(value, meth, trace.wrap(raw, name, layer))
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("nctoric"):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(module, attr, replaced[value])


def main():
    out, sep, *argv = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: tracer.py OUT.json -- <nctoric arguments>")
    modules = {layer: importlib.import_module(f"nctoric.{layer}") for layer in LAYERS}
    import_s = time.perf_counter() - START
    src = os.path.join(ROOT, "src", "nctoric")
    if os.path.dirname(os.path.abspath(modules["cli"].__file__)) != src:
        sys.exit(f"nctoric was imported from {modules['cli'].__file__}, not {src}")
    trace = Trace()
    install(trace, modules)
    try:
        return modules["cli"].main(argv)
    finally:
        with open(out, "w") as fh:
            json.dump(trace.to_obj(import_s), fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
